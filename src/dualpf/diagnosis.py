"""Residual generation, threshold calibration and confusion analysis.

A healthy baseline is fitted over a converged window of parameter
estimates; residuals are the baseline minus the running estimate, so a
loss of effectiveness shows up as a positive residual.  Thresholds are
empirical quantile envelopes over healthy Monte-Carlo runs; decisions
and band widening share one persistence test for out-of-band samples.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (CalibrationError, ConfigError, UndefinedMetricError,
                     check_int, check_real)
from .model import COMPONENTS
from .smc import sample_cov

CONVERGENCE_WINDOW = 200   # healthy-fit horizon and MAE tail, steps (2 s at 10 ms)
MIN_BAND_WIDTH = 1e-6
SEVERITY_WINDOW = 100      # steps from t_detect averaged into the severity
BAND_MAX_WIDENINGS = 60
BAND_TARGET_FP = 0.04      # healthy runs allowed to raise any detection
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


def _trip_starts(residuals: np.ndarray, band: ThresholdBand,
                 persistence: int) -> np.ndarray:
    """Per component, the first step of the first `persistence` consecutive
    out-of-band residuals, or -1 where there is none."""
    outside = (residuals < band.lower) | (residuals > band.upper)
    if outside.shape[0] < persistence:
        return np.full(outside.shape[1], -1)
    count = np.cumsum(outside, axis=0)   # row t: out-of-band in t-p+1 .. t
    count[persistence:] -= count[:-persistence]
    full = count == persistence
    return np.where(full.any(0), full.argmax(0) - persistence + 1, -1)


def calibrate_band(healthy_residual_runs: list[np.ndarray], coverage: float,
                   persistence: int) -> ThresholdBand:
    """calibrate_thresholds' envelope, widened x1.1 about its midpoint for
    up to BAND_MAX_WIDENINGS passes until at most BAND_TARGET_FP of the runs
    trip the persistence test: residuals are strongly autocorrelated, so the
    pooled envelope alone does not control run-level false alarms.  A
    missed target is warned about and the widest band returned."""
    band = calibrate_thresholds(healthy_residual_runs, coverage=coverage)
    check_int("persistence", persistence, 1)
    mid = 0.5 * (band.lower + band.upper)
    half = 0.5 * (band.upper - band.lower)
    scale = 1.0
    for _ in range(BAND_MAX_WIDENINGS):
        cand = ThresholdBand(mid - scale * half, mid + scale * half)
        false_alarms = np.mean([
            _trip_starts(np.atleast_2d(r), cand, persistence).max() >= 0
            for r in healthy_residual_runs])
        if false_alarms <= BAND_TARGET_FP:
            return cand
        scale *= 1.1
    warnings.warn(f"target_fp {BAND_TARGET_FP} missed: {false_alarms:.3f} "
                  f"of the healthy runs still raise a detection after "
                  f"{BAND_MAX_WIDENINGS} band widenings")
    return cand


def decide(residuals: np.ndarray, band: ThresholdBand,
           persistence: int) -> list[ComponentDecision]:
    """Per-component persistence test against the band: a component is
    flagged when its residual stays outside the band for `persistence`
    consecutive steps; t_detect is the first of them and the severity the
    mean residual over the SEVERITY_WINDOW steps from t_detect."""
    check_int("persistence", persistence, 1)
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    n_th = residuals.shape[1]
    if band.lower.shape != (n_th,):
        raise ConfigError(f"{band.lower.size}-component band for "
                          f"{n_th}-component residuals")
    return [ComponentDecision(False) if t < 0 else ComponentDecision(
                True, int(t), float(residuals[t:t + SEVERITY_WINDOW, j].mean()))
            for j, t in enumerate(_trip_starts(residuals, band, persistence))]


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
